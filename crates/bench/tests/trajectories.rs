//! The committed trajectories at the repository root load, pass their
//! gates and re-render byte for byte, so the shared file code reads
//! every committed entry and writes it back unchanged.

use std::fs;

use tokencmp_bench::kernel::KernelBenchEntry;
use tokencmp_bench::mcheck::McheckBenchEntry;
use tokencmp_bench::scale::ScaleBenchEntry;
use tokencmp_bench::trajectory::{parse_trajectory, render, trajectory_path, Entry};

fn check<E: Entry>() {
    let path = trajectory_path::<E>();
    let text = fs::read_to_string(&path).unwrap();
    let entries: Vec<E> = parse_trajectory(&text).unwrap();
    assert!(!entries.is_empty(), "{} is empty", path.display());
    if let Err(e) = E::gate(&entries) {
        panic!("{}: gate failed: {e}", path.display());
    }
    assert!(
        render(&entries) == text,
        "{} does not re-render byte for byte",
        path.display()
    );
}

#[test]
fn committed_trajectories_parse_pass_their_gates_and_rerender_byte_for_byte() {
    check::<KernelBenchEntry>();
    check::<ScaleBenchEntry>();
    check::<McheckBenchEntry>();
}
