//! C software back end (POLIS-style reaction function).
//!
//! Emits, for one compiled EFSM plus its design tables:
//!
//! * the frame struct holding all (mangled) design variables;
//! * one C function per extracted data action;
//! * the reaction function: a `switch` over control states whose arms
//!   are the states' s-graphs rendered as nested `if`s, `goto`-free.
//!
//! The emitted text is what the paper's flow would hand to a C compiler
//! for the MIPS target; in this reproduction it is an inspectable
//! artifact (examples print it) and the basis of the code-size model.

use ecl_core::Design;
use ecl_syntax::pretty;
use efsm::sgraph::{Node, NodeId};
use efsm::Efsm;
use std::fmt::Write as _;

/// Emit a complete C translation unit for `m`.
pub fn emit_c(m: &Efsm, design: &Design) -> String {
    let mut out = String::new();
    let name = sanitize(&m.name);
    let _ = writeln!(out, "/* Generated by the ECL reproduction compiler. */");
    let _ = writeln!(out, "/* Design entry: {} */", design.entry);
    let _ = writeln!(out, "#include <string.h>\n");
    // Signal ids.
    let _ = writeln!(out, "/* Signal indices */");
    for (i, s) in m.signals.iter().enumerate() {
        let _ = writeln!(out, "#define SIG_{} {}", sanitize(&s.name), i);
    }
    // Frame struct.
    let _ = writeln!(out, "\n/* Flat variable frame (all module instances) */");
    let _ = writeln!(out, "struct {name}_frame {{");
    for v in &design.elab.vars {
        let _ = writeln!(
            out,
            "    {}; /* {} */",
            pretty::typed_name(&v.ty, &sanitize(&v.name)),
            v.name
        );
    }
    let _ = writeln!(out, "}};\n");
    // Data actions.
    for (i, stmts) in design.split.data.actions.iter().enumerate() {
        let _ = writeln!(
            out,
            "static void {name}_action_{i}(struct {name}_frame *f) {{"
        );
        for s in stmts {
            for line in pretty::stmt(s).lines() {
                let _ = writeln!(out, "    {}", sanitize_refs(line));
            }
        }
        let _ = writeln!(out, "}}\n");
    }
    // Predicates.
    for (i, e) in design.split.data.preds.iter().enumerate() {
        let _ = writeln!(
            out,
            "static int {name}_pred_{i}(struct {name}_frame *f) {{ return ({}); }}",
            sanitize_refs(&pretty::expr(e))
        );
    }
    if !design.split.data.preds.is_empty() {
        out.push('\n');
    }
    // Emission values.
    for (i, (e, sig)) in design.split.data.emit_exprs.iter().enumerate() {
        let _ = writeln!(out, "/* value for signal {} */", m.signal_info(*sig).name);
        let _ = writeln!(
            out,
            "static void {name}_emitval_{i}(struct {name}_frame *f, void *dst) \
             {{ /* dst = ({}); */ (void)f; (void)dst; }}",
            sanitize_refs(&pretty::expr(e))
        );
    }
    // Reaction function.
    let _ = writeln!(out, "\n/* One synchronous instant. */");
    let _ = writeln!(
        out,
        "void {name}_react(struct {name}_frame *f, int state[1], \
         const unsigned char in[], unsigned char out_[]) {{"
    );
    let _ = writeln!(out, "    switch (state[0]) {{");
    for (si, st) in m.states.iter().enumerate() {
        let _ = writeln!(out, "    case {si}: /* {} */", st.name);
        let mut body = String::new();
        render_node(m, &name, st.root, 2, &mut body);
        out.push_str(&body);
        let _ = writeln!(out, "        break;");
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    out
}

/// Emit a self-contained C reaction function for a *pure-control*
/// machine — no variable frame, no data actions. This is the shape
/// observer monitors (`ecl-observe`) compile to, so generated task
/// code can carry its assertions: the caller drives `<name>_react`
/// lockstep with the design's reaction and checks the `fail` outputs.
pub fn emit_monitor_c(m: &Efsm) -> String {
    let mut out = String::new();
    let name = sanitize(&m.name);
    let _ = writeln!(out, "/* Generated by the ECL reproduction compiler. */");
    let _ = writeln!(
        out,
        "/* Monitor: {} (pure control, no data part) */\n",
        m.name
    );
    let _ = writeln!(out, "/* Signal indices */");
    for (i, s) in m.signals.iter().enumerate() {
        let _ = writeln!(out, "#define SIG_{} {}", sanitize(&s.name), i);
    }
    let _ = writeln!(
        out,
        "\n/* One synchronous instant, lockstep with the design. */"
    );
    let _ = writeln!(
        out,
        "void {name}_react(int state[1], const unsigned char in[], \
         unsigned char out_[]) {{"
    );
    let _ = writeln!(out, "    switch (state[0]) {{");
    for (si, st) in m.states.iter().enumerate() {
        let _ = writeln!(out, "    case {si}: /* {} */", st.name);
        let mut body = String::new();
        render_pure_node(m, st.root, 2, &mut body);
        out.push_str(&body);
        let _ = writeln!(out, "        break;");
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    out
}

/// Render one s-graph node of a pure-control machine. Data nodes
/// cannot occur in monitors; they render as comments so a hypothetical
/// mixed machine still produces inspectable text.
fn render_pure_node(m: &Efsm, id: NodeId, depth: usize, out: &mut String) {
    let pad = indent(depth);
    match &m.nodes[id.0 as usize] {
        Node::Test { sig, then_, else_ } => {
            let _ = writeln!(
                out,
                "{pad}if (in[SIG_{}]) {{",
                sanitize(&m.signal_info(*sig).name)
            );
            render_pure_node(m, *then_, depth + 1, out);
            let _ = writeln!(out, "{pad}}} else {{");
            render_pure_node(m, *else_, depth + 1, out);
            let _ = writeln!(out, "{pad}}}");
        }
        Node::TestPred { then_, .. } => {
            let _ = writeln!(
                out,
                "{pad}/* data predicate elided (monitor machines are pure) */"
            );
            render_pure_node(m, *then_, depth, out);
        }
        Node::Do { next, .. } => {
            let _ = writeln!(
                out,
                "{pad}/* data action elided (monitor machines are pure) */"
            );
            render_pure_node(m, *next, depth, out);
        }
        Node::Emit { sig, next, .. } => {
            let sname = sanitize(&m.signal_info(*sig).name);
            let _ = writeln!(out, "{pad}out_[SIG_{sname}] = 1;");
            render_pure_node(m, *next, depth, out);
        }
        Node::Goto { target } => {
            let _ = writeln!(out, "{pad}state[0] = {};", target.0);
        }
    }
}

fn indent(n: usize) -> String {
    "    ".repeat(n)
}

fn render_node(m: &Efsm, name: &str, id: NodeId, depth: usize, out: &mut String) {
    let pad = indent(depth);
    match &m.nodes[id.0 as usize] {
        Node::Test { sig, then_, else_ } => {
            let _ = writeln!(
                out,
                "{pad}if (in[SIG_{}]) {{",
                sanitize(&m.signal_info(*sig).name)
            );
            render_node(m, name, *then_, depth + 1, out);
            let _ = writeln!(out, "{pad}}} else {{");
            render_node(m, name, *else_, depth + 1, out);
            let _ = writeln!(out, "{pad}}}");
        }
        Node::TestPred { pred, then_, else_ } => {
            let _ = writeln!(out, "{pad}if ({name}_pred_{}(f)) {{", pred.0);
            render_node(m, name, *then_, depth + 1, out);
            let _ = writeln!(out, "{pad}}} else {{");
            render_node(m, name, *else_, depth + 1, out);
            let _ = writeln!(out, "{pad}}}");
        }
        Node::Do { action, next } => {
            let _ = writeln!(out, "{pad}{name}_action_{}(f);", action.0);
            render_node(m, name, *next, depth, out);
        }
        Node::Emit { sig, value, next } => {
            let sname = sanitize(&m.signal_info(*sig).name);
            if let Some(v) = value {
                let _ = writeln!(out, "{pad}{name}_emitval_{}(f, 0);", v.0);
            }
            let _ = writeln!(out, "{pad}out_[SIG_{sname}] = 1;");
            render_node(m, name, *next, depth, out);
        }
        Node::Goto { target } => {
            let _ = writeln!(out, "{pad}state[0] = {};", target.0);
        }
    }
}

/// Make a mangled name a valid C identifier.
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Rewrite mangled variable references inside printed C code to frame
/// accesses (`top::x` → `f->top__x`).
fn sanitize_refs(line: &str) -> String {
    // Names with `::` or `#` come from elaboration; map them to the
    // sanitized field and prefix with `f->`.
    let mut out = String::new();
    let mut chars = line.char_indices().peekable();
    let bytes = line.as_bytes();
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c == b':' || c == b'#';
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            // Trim trailing lone ':' (e.g. from `case x:`).
            let mut end = i;
            while end > start && bytes[end - 1] == b':' && !line[start..end].contains("::") {
                end -= 1;
            }
            let word = &line[start..end];
            if word.contains("::") || word.contains('#') {
                out.push_str("f->");
                out.push_str(&sanitize(word));
            } else {
                out.push_str(word);
            }
            for b in &bytes[end..i] {
                out.push(*b as char);
            }
            continue;
        }
        out.push(c as char);
        i += 1;
        let _ = &mut chars;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_core::Source;

    #[test]
    fn emits_reaction_and_actions() {
        let src = "
            module m(input pure a, output pure o) {
              int n;
              while (1) { await (a); n = n + 1; emit (o); }
            }";
        let m = Source::new(src).finish("m").unwrap();
        let c = emit_c(m.efsm(), &m.design());
        assert!(c.contains("void m_react"), "{c}");
        assert!(c.contains("switch (state[0])"));
        assert!(c.contains("m_action_0"), "{c}");
        assert!(c.contains("f->top__n"), "{c}");
        assert!(c.contains("out_[SIG_o] = 1;"), "{c}");
        assert!(c.contains("if (in[SIG_a])"), "{c}");
    }

    #[test]
    fn sanitize_handles_mangled_names() {
        assert_eq!(sanitize("top/assemble::cnt"), "top_assemble__cnt");
        assert_eq!(
            sanitize_refs("top::x = top::x + 1;"),
            "f->top__x = f->top__x + 1;"
        );
        // Plain identifiers untouched.
        assert_eq!(sanitize_refs("x = y + 1;"), "x = y + 1;");
    }

    #[test]
    fn valued_emission_emits_helper() {
        let src = "
            typedef unsigned char byte;
            module m(input byte i, output byte o) {
              while (1) { await (i); emit_v (o, i + 1); }
            }";
        let m = Source::new(src).finish("m").unwrap();
        let c = emit_c(m.efsm(), &m.design());
        assert!(c.contains("m_emitval_0"), "{c}");
    }
}
