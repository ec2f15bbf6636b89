//! The terminal pipeline stage: generated implementation artifacts.
//!
//! Lowers a compiled [`ecl_core::pipeline::Machine`] to the paper's
//! synthesis outputs (Section 3, phase 3): the C task implementation,
//! optionally Verilog RTL (hardware is an option when the machine is
//! pure control), a gate estimate, and the MIPS-flavoured size model.

use crate::c_backend::emit_c;
use crate::cost::{task_cost, CostParams, TaskCost};
use crate::verilog::{emit_verilog, estimate_gates, GateEstimate};
use ecl_core::pipeline::Machine;
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

    /// Build artifacts from a `(Design, Efsm)` pair compiled outside the
    /// pipeline stages.
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
}
