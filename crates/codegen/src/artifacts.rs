//! The terminal pipeline stage: generated implementation artifacts.
//!
//! Lowers a compiled [`ecl_core::pipeline::Machine`] to the paper's
//! synthesis outputs (Section 3, phase 3): the C task implementation,
//! optionally Verilog RTL (hardware is an option when the machine is
//! pure control), a gate estimate, and the MIPS-flavoured size model.
//!
//! Batch emission over a whole [`ecl_core::workspace::Workspace`] is
//! provided by [`WorkspaceCodegenExt`].

use crate::c_backend::emit_c;
use crate::cost::{task_cost, CostParams, TaskCost};
use crate::verilog::{emit_verilog, estimate_gates, GateEstimate};
use ecl_core::pipeline::Machine;
use ecl_core::workspace::Workspace;
use ecl_core::Design;
use ecl_syntax::diag::{Diagnostics, EclError, Stage};
use ecl_syntax::source::Span;
use efsm::Efsm;

/// Stage 6: everything the back ends produce for one design.
#[derive(Debug, Clone)]
pub struct Artifacts {
    entry: String,
    c: String,
    verilog: Option<String>,
    gates: GateEstimate,
    cost: TaskCost,
    diags: Diagnostics,
}

impl Artifacts {
    /// Advance a pipeline [`Machine`] to its implementation artifacts
    /// with the default cost model.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `codegen`.
    pub fn emit(machine: &Machine) -> Result<Artifacts, EclError> {
        Self::emit_with(machine, &CostParams::default())
    }

    /// [`Artifacts::emit`] with an explicit cost model.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `codegen`.
    pub fn emit_with(machine: &Machine, params: &CostParams) -> Result<Artifacts, EclError> {
        let design = machine.design();
        let mut out = Self::from_parts(&design, machine.efsm(), params)?;
        // Carry the pipeline's accumulated diagnostics forward.
        let mut diags = machine.diagnostics().clone();
        diags.merge(std::mem::take(&mut out.diags));
        out.diags = diags;
        Ok(out)
    }

    /// Build artifacts from a `(Design, Efsm)` pair (what a
    /// [`Workspace`] caches).
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `codegen`.
    pub fn from_parts(
        design: &Design,
        efsm: &Efsm,
        params: &CostParams,
    ) -> Result<Artifacts, EclError> {
        let c = emit_c(efsm, design);
        let mut diags = Diagnostics::new();
        let verilog = match emit_verilog(efsm) {
            Ok(v) => Some(v),
            Err(e) => {
                // Not an error: the paper keeps data-dominated machines
                // in software; hardware is an *option* for pure control.
                diags.note(
                    Stage::Codegen,
                    format!("no hardware option: {e}"),
                    Span::dummy(),
                );
                None
            }
        };
        Ok(Artifacts {
            entry: design.entry.clone(),
            c,
            verilog,
            gates: estimate_gates(efsm),
            cost: task_cost(efsm, design, params),
            diags,
        })
    }

    /// The design's entry module.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// The generated C implementation.
    pub fn c(&self) -> &str {
        &self.c
    }

    /// The generated Verilog RTL, if the machine had a hardware option
    /// (pure control).
    pub fn verilog(&self) -> Option<&str> {
        self.verilog.as_deref()
    }

    /// The Verilog RTL, or a `codegen`-stage error explaining why the
    /// design has no hardware option.
    ///
    /// # Errors
    ///
    /// [`EclError`] with stage `codegen`.
    pub fn require_verilog(&self) -> Result<&str, EclError> {
        self.verilog.as_deref().ok_or_else(|| {
            EclError::msg(
                Stage::Codegen,
                format!(
                    "design `{}` has no hardware option (data-dominated machine)",
                    self.entry
                ),
                Span::dummy(),
            )
        })
    }

    /// Gate estimate for the control structure.
    pub fn gates(&self) -> GateEstimate {
        self.gates
    }

    /// Code/data size estimate under the cost model.
    pub fn cost(&self) -> TaskCost {
        self.cost
    }

    /// Diagnostics accumulated across all stages, including codegen
    /// notes (e.g. why no Verilog was produced).
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diags
    }
}

/// Batch code generation over a [`Workspace`] — the codegen side of
/// the session API. Designs and EFSMs come from the workspace's
/// memoized caches; machine compilation for a batch runs in parallel
/// via [`Workspace::machine_all`].
pub trait WorkspaceCodegenExt {
    /// Full artifacts per `(source, entry)` job, in job order.
    fn artifacts_all(&self, jobs: &[(&str, &str)]) -> Vec<Result<Artifacts, EclError>>;

    /// C implementation per job, in job order.
    fn emit_c_all(&self, jobs: &[(&str, &str)]) -> Vec<Result<String, EclError>>;

    /// Verilog RTL per job, in job order (errors for designs with no
    /// hardware option).
    fn emit_verilog_all(&self, jobs: &[(&str, &str)]) -> Vec<Result<String, EclError>>;
}

impl WorkspaceCodegenExt for Workspace {
    fn artifacts_all(&self, jobs: &[(&str, &str)]) -> Vec<Result<Artifacts, EclError>> {
        let machines = self.machine_all(jobs);
        jobs.iter()
            .zip(machines)
            .map(|((name, entry), machine)| {
                let efsm = machine?;
                let design = self.compile(name, entry)?;
                Artifacts::from_parts(&design, &efsm, &CostParams::default())
            })
            .collect()
    }

    fn emit_c_all(&self, jobs: &[(&str, &str)]) -> Vec<Result<String, EclError>> {
        // C-only path: no Verilog, gate estimation or cost modelling.
        let machines = self.machine_all(jobs);
        jobs.iter()
            .zip(machines)
            .map(|((name, entry), machine)| {
                let efsm = machine?;
                let design = self.compile(name, entry)?;
                Ok(emit_c(&efsm, &design))
            })
            .collect()
    }

    fn emit_verilog_all(&self, jobs: &[(&str, &str)]) -> Vec<Result<String, EclError>> {
        self.artifacts_all(jobs)
            .into_iter()
            .map(|r| r.and_then(|a| a.require_verilog().map(str::to_owned)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_core::pipeline::Source;

    const CTL: &str = "
        module ctl(input pure go, input pure reset, output pure done) {
          while (1) { do { await (go); emit (done); } abort (reset); }
        }";

    #[test]
    fn artifacts_from_pipeline_machine() {
        let machine = Source::new(CTL).finish("ctl").unwrap();
        let a = Artifacts::emit(&machine).unwrap();
        assert!(a.c().contains("ctl"), "C names the design");
        // Pure control: the hardware option exists.
        assert!(a.verilog().is_some());
        assert!(a.gates().flops >= 1);
        assert!(a.cost().code_bytes > 0);
    }

    #[test]
    fn data_design_has_no_hardware_option() {
        let src = "
            module m(input pure a, output pure o) {
              int x;
              while (1) { await (a); x = x + 1; emit (o); } }";
        let machine = Source::new(src).finish("m").unwrap();
        let a = Artifacts::emit(&machine).unwrap();
        assert!(a.verilog().is_none());
        let e = a.require_verilog().unwrap_err();
        assert_eq!(e.stage(), Stage::Codegen);
        // The reason is recorded as a note.
        assert!(!a.diagnostics().is_empty());
    }

    #[test]
    fn batch_codegen_over_workspace() {
        let mut ws = Workspace::new();
        ws.add_source(
            "two.ecl",
            "module x(input pure a, output pure o) { while (1) { await (a); emit (o); } }
             module y(input pure b, output pure p) { while (1) { await (b); emit (p); } }",
        );
        let jobs = [("two.ecl", "x"), ("two.ecl", "y")];
        let cs = ws.emit_c_all(&jobs);
        assert!(cs.iter().all(Result::is_ok));
        let vs = ws.emit_verilog_all(&jobs);
        assert!(vs.iter().all(Result::is_ok));
    }
}
