//! Runs the reproduction's gates: the allocation gate and the four
//! determinism storms, each a `cos_bench` module.
//!
//! Usage: `gate [--smoke] [NAME…]`. With no names it runs every entry of
//! [`REGISTRY`] in order; with names, only those, in the order given. An
//! unknown name exits with status 2 before anything runs and lists the
//! valid names. `--smoke` runs each entry at its reduced scale, and holds
//! every storm's digest to its recorded smoke pin. Each entry prints its
//! measurements and digests to stderr and ends with one
//! `<name> passed` / `<name> FAILED` line; the exit status is 1 if any
//! check of any entry failed.

use cos_bench::gate::Verdict;
use cos_bench::{adaptation, alloc, mesh, service, session};
use cos_experiments::harness::{select, Entry};

/// An entry's body: it reports every check into the verdict, at the
/// reduced scale when the flag says `--smoke`.
type Gate = fn(&mut Verdict, bool);

/// Every gate, in the order a bare `gate` runs them.
const REGISTRY: &[Entry<Gate>] = &[
    Entry {
        name: "alloc",
        what: "0 allocs/frame on the workspace paths, session paths, footprint, warmed drains",
        run: alloc::run,
    },
    Entry {
        name: "session",
        what: "1000+ pooled sessions: engine digests equal at 1/4/8 threads",
        run: session::run,
    },
    Entry {
        name: "adaptation",
        what: "drifting adaptive sessions: digests equal at 1/4/8 threads; drift duel",
        run: adaptation::run,
    },
    Entry {
        name: "service",
        what: "service chaos: exactly-once tickets, bounded queues, journal replay",
        run: service::run,
    },
    Entry {
        name: "mesh",
        what: "1024+ churning mesh stations: digests equal at 1/4/8 threads; coordination duel",
        run: mesh::run,
    },
];

fn main() {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    let before = names.len();
    names.retain(|a| a != "--smoke");
    let smoke = names.len() < before;
    let entries = select(REGISTRY, &names).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let mut passed = true;
    for entry in entries {
        let mut verdict = Verdict::new(entry.name);
        (entry.run)(&mut verdict, smoke);
        passed &= verdict.finish();
    }
    if !passed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bare_gate_runs_every_entry_once_in_order() {
        let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names, ["alloc", "session", "adaptation", "service", "mesh"]);
    }
}
