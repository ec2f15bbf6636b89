//! End-to-end smoke test: the paper's protocol stack compiles and runs.

use ecl_core::Source;
use sim::designs::PROTOCOL_STACK;

#[test]
fn stack_modules_compile_individually() {
    for m in ["assemble", "checkcrc", "prochdr"] {
        let machine = Source::new(PROTOCOL_STACK).finish(m).unwrap();
        let efsm = machine.efsm();
        efsm.validate().unwrap();
        println!("{m}: {}", efsm.stats());
    }
}

#[test]
fn stack_whole_program_compiles() {
    let machine = Source::new(PROTOCOL_STACK).finish("toplevel").unwrap();
    let efsm = machine.efsm();
    efsm.validate().unwrap();
    println!("toplevel: {}", efsm.stats());
    assert!(efsm.states.len() >= 3);
}
